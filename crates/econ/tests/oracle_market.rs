//! Equivalence oracle for `Market`'s pricing.
//!
//! `RefMarket` is the market loop as it ran before pricing stopped cloning
//! the market: `profit_if` clones the whole market for each candidate
//! tariff and re-runs `best_choice` over every provider for every
//! consumer, and `choice_phase` clones each consumer. Its code is kept
//! verbatim. On random markets, including ones built to tie, the real
//! market must pick the same provider for every consumer, set every tariff
//! and report every figure exactly as the reference does, month by month.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use tussle_econ::{Consumer, Market, MarketReport, Money, PricingScheme, Provider};

/// The market: consumers, providers, and the choice/pricing loop.
#[derive(Debug, Clone)]
struct RefMarket {
    consumers: Vec<Consumer>,
    providers: Vec<Provider>,
    amortization_months: i64,
    price_step: Money,
}

impl RefMarket {
    fn of(m: &Market) -> Self {
        RefMarket {
            consumers: m.consumers.clone(),
            providers: m.providers.clone(),
            amortization_months: m.amortization_months,
            price_step: m.price_step,
        }
    }

    /// Monthly surplus consumer `c` would get from provider `p`, *before*
    /// switching costs.
    fn gross_surplus(&self, c: &Consumer, p: &Provider) -> Money {
        let perceived = c.value.scale(p.quality);
        perceived - p.scheme.bill(c.observed_usage())
    }

    /// Monthly-equivalent surplus including the amortized switching cost if
    /// `p_idx` differs from the consumer's current provider.
    fn net_surplus(&self, c: &Consumer, p_idx: usize) -> Money {
        let gross = self.gross_surplus(c, &self.providers[p_idx]);
        if c.provider == Some(p_idx) {
            gross
        } else {
            gross - Money(c.switching_cost.micros() / self.amortization_months.max(1))
        }
    }

    /// The provider a consumer would pick right now (`None` = go unserved).
    fn best_choice(&self, c: &Consumer) -> Option<usize> {
        let mut best: Option<(usize, Money)> = None;
        for idx in 0..self.providers.len() {
            let s = self.net_surplus(c, idx);
            if !s.is_positive() && !s.micros().eq(&0) {
                // negative surplus: skip
                continue;
            }
            if s.is_negative() {
                continue;
            }
            match best {
                Some((_, bs)) if bs >= s => {}
                _ => best = Some((idx, s)),
            }
        }
        best.map(|(i, _)| i)
    }

    /// One choice phase: every consumer re-picks a provider. Returns the
    /// number of switches.
    fn choice_phase(&mut self) -> usize {
        let mut switches = 0;
        for i in 0..self.consumers.len() {
            let c = self.consumers[i].clone();
            let pick = self.best_choice(&c);
            if pick != c.provider {
                switches += 1;
            }
            self.consumers[i].provider = pick;
        }
        switches
    }

    /// Demand and profit provider `p_idx` would see if it charged
    /// `candidate`, with every other provider's tariff held fixed.
    fn profit_if(&self, p_idx: usize, candidate: &PricingScheme) -> Money {
        let mut profit = Money::ZERO;
        let mut trial = self.clone();
        trial.providers[p_idx].scheme = candidate.clone();
        for c in &self.consumers {
            if trial.best_choice(c) == Some(p_idx) {
                let revenue = candidate.bill(c.observed_usage());
                profit += revenue - trial.providers[p_idx].marginal_cost;
            }
        }
        profit
    }

    /// One pricing phase: each adjusting provider evaluates a small set of
    /// candidate moves — a step up, a step down, and (when competitors
    /// exist) undercutting the cheapest rival either marginally or by
    /// enough to overcome the average switching cost — and keeps the most
    /// profitable. The undercut candidates are what let Bertrand dynamics
    /// and Edgeworth cycles emerge instead of lockstep tacit collusion.
    fn pricing_phase(&mut self) {
        let avg_switch_monthly = if self.consumers.is_empty() {
            Money::ZERO
        } else {
            Money(
                self.consumers.iter().map(|c| c.switching_cost.micros()).sum::<i64>()
                    / self.consumers.len() as i64
                    / self.amortization_months.max(1),
            )
        };
        for idx in 0..self.providers.len() {
            if !self.providers[idx].adjusts_price {
                continue;
            }
            let current = self.providers[idx].scheme.clone();
            let rival_floor = self
                .providers
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != idx)
                .map(|(_, p)| p.scheme.headline())
                .min();
            let mut candidates = vec![
                adjust_scheme(&current, self.price_step),
                adjust_scheme(&current, -self.price_step),
            ];
            if let Some(floor) = rival_floor {
                let here = current.headline();
                // undercut the rival marginally...
                candidates.push(adjust_scheme(&current, floor - here - self.price_step));
                // ...or deeply enough that locked-in customers still move
                candidates.push(adjust_scheme(
                    &current,
                    floor - here - avg_switch_monthly - self.price_step,
                ));
            }
            let mut best = (self.profit_if(idx, &current), current.clone());
            for cand in candidates.into_iter().flatten() {
                let p = self.profit_if(idx, &cand);
                if p > best.0 {
                    best = (p, cand);
                }
            }
            self.providers[idx].scheme = best.1;
        }
    }

    /// Run `months` of alternating choice and pricing; returns the final
    /// month's report.
    fn run(&mut self, months: usize) -> MarketReport {
        let mut last_switches = 0;
        for _ in 0..months {
            last_switches = self.choice_phase();
            self.pricing_phase();
        }
        // settle the final assignment before reporting
        last_switches += self.choice_phase();
        self.report(last_switches)
    }

    /// Snapshot the current state.
    fn report(&self, switches: usize) -> MarketReport {
        let mut shares = vec![0usize; self.providers.len()];
        let mut consumer_surplus = Money::ZERO;
        let mut provider_profit = Money::ZERO;
        let mut served = 0;
        for c in &self.consumers {
            if let Some(p) = c.provider {
                served += 1;
                shares[p] += 1;
                consumer_surplus += self.gross_surplus(c, &self.providers[p]).max(Money::ZERO);
                provider_profit += self.providers[p].scheme.bill(c.observed_usage())
                    - self.providers[p].marginal_cost;
            }
        }
        let avg_headline = if self.providers.is_empty() {
            Money::ZERO
        } else {
            Money(
                self.providers.iter().map(|p| p.scheme.headline().micros()).sum::<i64>()
                    / self.providers.len() as i64,
            )
        };
        let avg_markup = {
            let ms: Vec<f64> = self
                .providers
                .iter()
                .filter(|p| p.marginal_cost.is_positive())
                .map(|p| {
                    (p.scheme.headline().micros() as f64 - p.marginal_cost.micros() as f64)
                        / p.marginal_cost.micros() as f64
                })
                .collect();
            if ms.is_empty() {
                0.0
            } else {
                ms.iter().sum::<f64>() / ms.len() as f64
            }
        };
        MarketReport {
            served,
            unserved: self.consumers.len() - served,
            switches,
            avg_headline,
            avg_markup,
            consumer_surplus,
            provider_profit,
            shares,
        }
    }
}

/// Step a scheme's headline knob by `delta` (clamped at zero). Returns
/// `None` when the step is a no-op.
fn adjust_scheme(scheme: &PricingScheme, delta: Money) -> Option<PricingScheme> {
    fn bump(m: Money, d: Money) -> Money {
        (m + d).max(Money::ZERO)
    }
    let out = match scheme {
        PricingScheme::Flat { monthly } => PricingScheme::Flat { monthly: bump(*monthly, delta) },
        PricingScheme::PerByte { per_mb } => {
            PricingScheme::PerByte { per_mb: bump(*per_mb, Money(delta.micros() / 1000)) }
        }
        PricingScheme::TwoPart { monthly, per_mb } => {
            PricingScheme::TwoPart { monthly: bump(*monthly, delta), per_mb: *per_mb }
        }
        PricingScheme::ValuePricing { residential, business } => PricingScheme::ValuePricing {
            residential: bump(*residential, delta),
            business: *business,
        },
    };
    (out != *scheme).then_some(out)
}

fn assert_same_report(real: &MarketReport, reference: &MarketReport, at: &str) {
    assert_eq!(real.served, reference.served, "served {at}");
    assert_eq!(real.unserved, reference.unserved, "unserved {at}");
    assert_eq!(real.switches, reference.switches, "switches {at}");
    assert_eq!(real.avg_headline, reference.avg_headline, "avg_headline {at}");
    assert_eq!(real.avg_markup.to_bits(), reference.avg_markup.to_bits(), "avg_markup {at}");
    assert_eq!(real.consumer_surplus, reference.consumer_surplus, "consumer_surplus {at}");
    assert_eq!(real.provider_profit, reference.provider_profit, "provider_profit {at}");
    assert_eq!(real.shares, reference.shares, "shares {at}");
}

/// Every consumer's provider and every tariff agree.
fn assert_same_state(real: &Market, reference: &RefMarket, at: &str) {
    let picks = |cs: &[Consumer]| cs.iter().map(|c| c.provider).collect::<Vec<_>>();
    assert_eq!(picks(&real.consumers), picks(&reference.consumers), "providers {at}");
    let tariffs = |ps: &[Provider]| ps.iter().map(|p| p.scheme.clone()).collect::<Vec<_>>();
    assert_eq!(tariffs(&real.providers), tariffs(&reference.providers), "tariffs {at}");
}

/// `months` of choice and pricing on both markets, compared after every
/// phase, then the final settle and report as `Market::run` makes them.
fn assert_months_match(market: &Market, months: usize) {
    let mut real = market.clone();
    let mut reference = RefMarket::of(market);
    for month in 0..months {
        let switches = real.choice_phase();
        assert_eq!(switches, reference.choice_phase(), "switches in month {month}");
        assert_same_state(&real, &reference, &format!("after month {month}'s choice"));
        real.pricing_phase();
        reference.pricing_phase();
        assert_same_state(&real, &reference, &format!("after month {month}'s pricing"));
        let at = format!("in month {month}");
        assert_same_report(&real.report(switches), &reference.report(switches), &at);
    }
    let switches = real.choice_phase();
    assert_eq!(switches, reference.choice_phase(), "final switches");
    assert_same_report(&real.report(switches), &reference.report(switches), "at the end");
    let at = format!("after run({months})");
    assert_same_report(&market.clone().run(months), &RefMarket::of(market).run(months), &at);
}

fn pick<T: Copy>(rng: &mut ChaCha8Rng, from: &[T]) -> T {
    from[rng.gen_range(0..from.len())]
}

fn dollars(rng: &mut ChaCha8Rng) -> Money {
    Money::from_dollars(rng.gen_range(0..=8) * 10)
}

/// A tariff of any of the four schemes, on coarse grids so that offers
/// collide.
fn scheme(rng: &mut ChaCha8Rng) -> PricingScheme {
    match rng.gen_range(0..4) {
        0 => PricingScheme::Flat { monthly: dollars(rng) },
        1 => PricingScheme::PerByte { per_mb: Money(rng.gen_range(0..=4) * 10_000) },
        2 => PricingScheme::TwoPart {
            monthly: dollars(rng),
            per_mb: Money(rng.gen_range(0..=2) * 10_000),
        },
        _ => {
            let residential = dollars(rng);
            PricingScheme::ValuePricing {
                residential,
                business: residential + Money::from_dollars(rng.gen_range(0..=4) * 20),
            }
        }
    }
}

/// A random market: 1–6 providers of every scheme, some frozen, and 0–60
/// consumers with mixed switching costs. With `tied`, every provider
/// makes one offer at quality 1, and each consumer values service at that
/// offer's price or $10 above it, with no switching cost, so surpluses
/// tie across providers, at 0 or above.
fn market(seed: u64, tied: bool) -> Market {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let n = rng.gen_range(1..=6usize);
    let shared = scheme(&mut rng);
    let providers: Vec<Provider> = (0..n)
        .map(|i| Provider {
            name: format!("p{i}"),
            scheme: if tied { shared.clone() } else { scheme(&mut rng) },
            marginal_cost: Money::from_dollars(pick(&mut rng, &[0, 5, 10, 20])),
            quality: if tied { 1.0 } else { pick(&mut rng, &[1.0, 1.0, 0.5, 0.8, 1.25, 1.5]) },
            adjusts_price: rng.gen_bool(0.75),
        })
        .collect();
    let consumers = (0..rng.gen_range(0..=60u64))
        .map(|id| {
            let usage_mb = pick(&mut rng, &[0, 500, 1000, 2000]);
            let runs_server = rng.gen_bool(0.3);
            let tunnels = rng.gen_bool(0.5);
            let mut c = Consumer {
                id,
                value: Money::from_dollars(rng.gen_range(0..=12) * 10),
                usage_mb,
                runs_server,
                tunnels,
                switching_cost: Money::from_dollars(pick(&mut rng, &[0, 0, 12, 24, 120, 600])),
                provider: if rng.gen_bool(0.5) { Some(rng.gen_range(0..n)) } else { None },
            };
            if tied {
                let premium = Money::from_dollars(pick(&mut rng, &[0, 10]));
                c.value = shared.bill(c.observed_usage()) + premium;
                c.switching_cost = Money::ZERO;
            }
            c
        })
        .collect();
    let mut m = Market::new(consumers, providers);
    m.amortization_months = pick(&mut rng, &[0, 1, 12]);
    m.price_step = Money::from_dollars(pick(&mut rng, &[1, 2, 5, 10]));
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random markets: every consumer's provider, every tariff and every
    /// report agree with the reference, month by month.
    #[test]
    fn pricing_matches_the_cloning_reference(seed in any::<u64>(), months in 1usize..=16) {
        assert_months_match(&market(seed, false), months);
    }

    /// Markets whose offers tie across providers, at zero surplus or above:
    /// the first provider of a tie keeps the consumer, as in the reference.
    #[test]
    fn tied_offers_go_to_the_first_provider_as_in_the_reference(
        seed in any::<u64>(),
        months in 1usize..=16,
    ) {
        assert_months_match(&market(seed, true), months);
    }
}

/// Two identical flat offers at exactly the consumers' value: every
/// surplus is 0 and both offers tie. The first provider serves everyone,
/// and the second cannot win a consumer by matching it, only by going
/// below it.
#[test]
fn a_zero_surplus_tie_stays_with_the_first_provider() {
    let consumers: Vec<Consumer> = (0..4)
        .map(|id| Consumer {
            id,
            value: Money::from_dollars(30),
            usage_mb: 1000,
            runs_server: false,
            tunnels: false,
            switching_cost: Money::ZERO,
            provider: None,
        })
        .collect();
    let providers = vec![
        Provider::flat("first", Money::from_dollars(30), Money::from_dollars(10)),
        Provider::flat("second", Money::from_dollars(30), Money::from_dollars(10)),
    ];
    let mut m = Market::new(consumers, providers);
    m.choice_phase();
    assert_eq!(m.report(0).shares, vec![4, 0]);
    assert_months_match(&m, 6);
}
