//! A retail access market with switching costs.
//!
//! §V.A: "The vector of fear is competition, which results when the
//! consumer has choice. ... To make competition viable, the consumer in a
//! market must have the ability to choose." This module makes that
//! sentence executable: consumers with willingness-to-pay choose among
//! providers, paying a *switching cost* to change (the §V.A.1 renumbering
//! burden); providers set prices by greedy best response. The equilibrium
//! markup over marginal cost is the lock-in measurement of experiment E1:
//! high switching cost ⇒ high markup, cheap renumbering ⇒ competition
//! disciplines price.

use crate::money::Money;
use crate::pricing::{PricingScheme, Usage};
use serde::{Deserialize, Serialize};

/// A retail customer.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Consumer {
    /// Stable identifier (iteration order).
    pub id: u64,
    /// Monthly value the consumer places on service.
    pub value: Money,
    /// Monthly traffic in megabytes.
    pub usage_mb: u64,
    /// Whether the consumer runs a server.
    pub runs_server: bool,
    /// Whether the consumer tunnels to hide the server (§V.A.2).
    pub tunnels: bool,
    /// One-time cost of changing provider (renumbering pain, §V.A.1).
    pub switching_cost: Money,
    /// Current provider (index into the market's provider list).
    pub provider: Option<usize>,
}

impl Consumer {
    /// The usage a provider observes for billing.
    pub fn observed_usage(&self) -> Usage {
        Usage {
            megabytes: self.usage_mb,
            runs_server: self.runs_server,
            server_visible: self.runs_server && !self.tunnels,
        }
    }
}

/// A retail provider.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Provider {
    /// Display name.
    pub name: String,
    /// Current tariff.
    pub scheme: PricingScheme,
    /// Cost of serving one customer for one month.
    pub marginal_cost: Money,
    /// Service quality multiplier on consumer value (1.0 = baseline).
    pub quality: f64,
    /// Whether this provider participates in pricing (false freezes its
    /// tariff — e.g. a regulated municipal fiber operator, §V.A.3).
    pub adjusts_price: bool,
}

impl Provider {
    /// A flat-rate provider.
    pub fn flat(name: &str, monthly: Money, marginal_cost: Money) -> Self {
        Provider {
            name: name.to_owned(),
            scheme: PricingScheme::Flat { monthly },
            marginal_cost,
            quality: 1.0,
            adjusts_price: true,
        }
    }
}

/// Snapshot of one market round.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MarketReport {
    /// Consumers with service.
    pub served: usize,
    /// Consumers who found no positive-surplus offer.
    pub unserved: usize,
    /// Switches executed this round.
    pub switches: usize,
    /// Average headline price across providers.
    pub avg_headline: Money,
    /// Mean markup over marginal cost, as a fraction (0.25 = 25%).
    pub avg_markup: f64,
    /// Total consumer surplus this month.
    pub consumer_surplus: Money,
    /// Total provider profit this month.
    pub provider_profit: Money,
    /// Customers per provider.
    pub shares: Vec<usize>,
}

/// The market: consumers, providers, and the choice/pricing loop.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Market {
    /// All consumers.
    pub consumers: Vec<Consumer>,
    /// All providers.
    pub providers: Vec<Provider>,
    /// Months over which a one-time switching cost is amortized when
    /// compared against monthly surplus differences.
    pub amortization_months: i64,
    /// Price adjustment step for best-response pricing.
    pub price_step: Money,
}

impl Market {
    /// A market over the given participants.
    pub fn new(consumers: Vec<Consumer>, providers: Vec<Provider>) -> Self {
        Market { consumers, providers, amortization_months: 12, price_step: Money::from_dollars(2) }
    }

    /// Monthly surplus consumer `c` would get from provider `p` charging
    /// `scheme`, *before* switching costs.
    fn gross_surplus(c: &Consumer, p: &Provider, scheme: &PricingScheme) -> Money {
        let perceived = c.value.scale(p.quality);
        perceived - scheme.bill(c.observed_usage())
    }

    /// Monthly-equivalent surplus from provider `p_idx` charging `scheme`,
    /// including the amortized switching cost if `p_idx` differs from the
    /// consumer's current provider.
    fn net_surplus_at(&self, c: &Consumer, p_idx: usize, scheme: &PricingScheme) -> Money {
        let gross = Self::gross_surplus(c, &self.providers[p_idx], scheme);
        if c.provider == Some(p_idx) {
            gross
        } else {
            gross - Money(c.switching_cost.micros() / self.amortization_months.max(1))
        }
    }

    /// [`Market::net_surplus_at`] under the provider's current tariff.
    fn net_surplus(&self, c: &Consumer, p_idx: usize) -> Money {
        self.net_surplus_at(c, p_idx, &self.providers[p_idx].scheme)
    }

    /// The provider a consumer would pick right now (`None` = go unserved):
    /// the first with the best admissible (non-negative) net surplus.
    fn best_choice(&self, c: &Consumer) -> Option<usize> {
        let mut best: Option<(usize, Money)> = None;
        for idx in 0..self.providers.len() {
            let s = self.net_surplus(c, idx);
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
    pub fn choice_phase(&mut self) -> usize {
        let mut switches = 0;
        for i in 0..self.consumers.len() {
            let pick = self.best_choice(&self.consumers[i]);
            let c = &mut self.consumers[i];
            if pick != c.provider {
                switches += 1;
            }
            c.provider = pick;
        }
        switches
    }

    /// The least net surplus with which provider `p_idx` wins consumer `c`
    /// from the others' current tariffs, by [`Market::best_choice`]'s rule:
    /// admissible, one micro-unit above every earlier offer (ties go to the
    /// first index) and at least every later one.
    fn winning_surplus(&self, c: &Consumer, p_idx: usize) -> Money {
        let offer = |i| self.net_surplus(c, i);
        let earlier = (0..p_idx).map(offer).max().map(|s| s + Money(1));
        let later = (p_idx + 1..self.providers.len()).map(offer).max();
        earlier.into_iter().chain(later).fold(Money::ZERO, Money::max)
    }

    /// Profit provider `p_idx` would make charging `candidate`, with every
    /// other provider's tariff held fixed: it serves consumer `i` when its
    /// offer reaches `needs[i]`, the [`Market::winning_surplus`].
    fn candidate_profit(&self, p_idx: usize, candidate: &PricingScheme, needs: &[Money]) -> Money {
        let mut profit = Money::ZERO;
        for (c, &need) in self.consumers.iter().zip(needs) {
            if self.net_surplus_at(c, p_idx, candidate) >= need {
                let revenue = candidate.bill(c.observed_usage());
                profit += revenue - self.providers[p_idx].marginal_cost;
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
    ///
    /// While one provider tries its candidates, the others' offers stand
    /// still, so each consumer's winning surplus is computed once per
    /// provider; it is recomputed for the next provider, whose rivals
    /// include the tariff just chosen.
    pub fn pricing_phase(&mut self) {
        let avg_switch_monthly = if self.consumers.is_empty() {
            Money::ZERO
        } else {
            Money(
                self.consumers.iter().map(|c| c.switching_cost.micros()).sum::<i64>()
                    / self.consumers.len() as i64
                    / self.amortization_months.max(1),
            )
        };
        let mut needs = Vec::with_capacity(self.consumers.len());
        for idx in 0..self.providers.len() {
            if !self.providers[idx].adjusts_price {
                continue;
            }
            needs.clear();
            needs.extend(self.consumers.iter().map(|c| self.winning_surplus(c, idx)));
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
            let mut best = (self.candidate_profit(idx, &current, &needs), current.clone());
            for cand in candidates.into_iter().flatten() {
                let p = self.candidate_profit(idx, &cand, &needs);
                if p > best.0 {
                    best = (p, cand);
                }
            }
            self.providers[idx].scheme = best.1;
        }
    }

    /// Run `months` of alternating choice and pricing; returns the final
    /// month's report.
    pub fn run(&mut self, months: usize) -> MarketReport {
        use tussle_sim::{obs, SimTime};
        let observing = obs::active();
        if observing {
            let m = months.to_string();
            obs::span_enter(SimTime::ZERO, "econ.market", Some("provider"), &[("months", &m)]);
        }
        let mut last_switches = 0;
        for _ in 0..months {
            last_switches = self.choice_phase();
            self.pricing_phase();
        }
        // settle the final assignment before reporting
        last_switches += self.choice_phase();
        let report = self.report(last_switches);
        if observing {
            let sw = report.switches.to_string();
            obs::span_exit(SimTime::ZERO, &[("switches", &sw)]);
        }
        report
    }

    /// Snapshot the current state.
    pub fn report(&self, switches: usize) -> MarketReport {
        let mut shares = vec![0usize; self.providers.len()];
        let mut consumer_surplus = Money::ZERO;
        let mut provider_profit = Money::ZERO;
        let mut served = 0;
        for c in &self.consumers {
            if let Some(p) = c.provider {
                served += 1;
                shares[p] += 1;
                let provider = &self.providers[p];
                consumer_surplus +=
                    Self::gross_surplus(c, provider, &provider.scheme).max(Money::ZERO);
                provider_profit +=
                    provider.scheme.bill(c.observed_usage()) - provider.marginal_cost;
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

#[cfg(test)]
mod tests {
    use super::*;

    fn consumers(n: u64, value: i64, switching: i64) -> Vec<Consumer> {
        (0..n)
            .map(|id| Consumer {
                id,
                value: Money::from_dollars(value),
                usage_mb: 1000,
                runs_server: false,
                tunnels: false,
                switching_cost: Money::from_dollars(switching),
                provider: None,
            })
            .collect()
    }

    fn flat_provider(name: &str, price: i64) -> Provider {
        Provider::flat(name, Money::from_dollars(price), Money::from_dollars(20))
    }

    #[test]
    fn consumers_pick_the_cheapest_equivalent_offer() {
        let mut m = Market::new(
            consumers(10, 100, 0),
            vec![flat_provider("cheap", 30), flat_provider("dear", 60)],
        );
        m.choice_phase();
        let r = m.report(0);
        assert_eq!(r.shares, vec![10, 0]);
        assert_eq!(r.served, 10);
    }

    #[test]
    fn monopolist_prices_toward_willingness_to_pay() {
        let mut m = Market::new(consumers(20, 100, 0), vec![flat_provider("mono", 30)]);
        let r = m.run(100);
        // price should climb close to consumer value ($100)
        assert!(
            r.avg_headline > Money::from_dollars(80),
            "monopoly price {} should approach $100",
            r.avg_headline
        );
    }

    #[test]
    fn competition_disciplines_price() {
        let duo = {
            let mut m = Market::new(
                consumers(20, 100, 0),
                vec![flat_provider("a", 80), flat_provider("b", 80)],
            );
            m.run(100)
        };
        let mono = {
            let mut m = Market::new(consumers(20, 100, 0), vec![flat_provider("a", 80)]);
            m.run(100)
        };
        assert!(
            duo.avg_headline < mono.avg_headline,
            "duopoly {} must undercut monopoly {}",
            duo.avg_headline,
            mono.avg_headline
        );
    }

    #[test]
    fn switching_costs_sustain_markup() {
        // Same duopoly, but consumers face a heavy renumbering cost.
        let frictionless = {
            let mut m = Market::new(
                consumers(20, 100, 0),
                vec![flat_provider("a", 60), flat_provider("b", 60)],
            );
            m.run(100)
        };
        let locked_in = {
            let mut m = Market::new(
                consumers(20, 100, 600),
                vec![flat_provider("a", 60), flat_provider("b", 60)],
            );
            m.run(100)
        };
        assert!(
            locked_in.avg_headline > frictionless.avg_headline,
            "lock-in {} must exceed frictionless {}",
            locked_in.avg_headline,
            frictionless.avg_headline
        );
    }

    #[test]
    fn overpriced_consumers_go_unserved() {
        let mut m = Market::new(consumers(5, 10, 0), vec![flat_provider("dear", 50)]);
        m.choice_phase();
        let r = m.report(0);
        assert_eq!(r.served, 0);
        assert_eq!(r.unserved, 5);
    }

    #[test]
    fn quality_can_beat_price() {
        let mut premium = flat_provider("premium", 50);
        premium.quality = 1.5;
        let budget = flat_provider("budget", 40);
        let mut m = Market::new(consumers(10, 100, 0), vec![premium, budget]);
        m.choice_phase();
        let r = m.report(0);
        // premium surplus: 150-50=100 beats budget 100-40=60
        assert_eq!(r.shares, vec![10, 0]);
    }

    #[test]
    fn value_pricing_collects_more_from_visible_servers() {
        let mut cs = consumers(2, 200, 0);
        cs[0].runs_server = true; // visible server
        cs[1].runs_server = true;
        cs[1].tunnels = true; // hidden server
        let vp = Provider {
            name: "vp".into(),
            scheme: PricingScheme::ValuePricing {
                residential: Money::from_dollars(40),
                business: Money::from_dollars(120),
            },
            marginal_cost: Money::from_dollars(20),
            quality: 1.0,
            adjusts_price: false,
        };
        let mut m = Market::new(cs, vec![vp]);
        m.choice_phase();
        let r = m.report(0);
        // one pays 120, one pays 40 => profit = (120-20)+(40-20) = 120
        assert_eq!(r.provider_profit, Money::from_dollars(120));
    }

    #[test]
    fn frozen_tariffs_do_not_move() {
        let mut p = flat_provider("regulated", 25);
        p.adjusts_price = false;
        let mut m = Market::new(consumers(10, 100, 0), vec![p]);
        let r = m.run(50);
        assert_eq!(r.avg_headline, Money::from_dollars(25));
    }

    #[test]
    fn report_counts_are_consistent() {
        let mut m =
            Market::new(consumers(7, 100, 0), vec![flat_provider("a", 30), flat_provider("b", 30)]);
        let r = m.run(10);
        assert_eq!(r.served + r.unserved, 7);
        assert_eq!(r.shares.iter().sum::<usize>(), r.served);
    }
}
