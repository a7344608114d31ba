//! Botnet-monitor collector (`Bot`).
//!
//! Captive instances of monitored botnets reproduce (nearly) the full
//! outbound stream of those botnets (§3.2): highly pure, highly
//! voluminous, blind to everything delivered any other way — including
//! every campaign of the unmonitored botnets. During the poisoning
//! window the stream is dominated by random non-domains (§4.1.1).

use crate::config::BotConfig;
use crate::engine::{collect_content, MemberSpec};
use crate::feed::Feed;
use taster_mailsim::MailWorld;
use taster_sim::{FaultPlan, Obs, Parallelism};

/// Collects the `Bot` feed.
///
/// Thin wrapper over the fused content engine with a single member;
/// per-event RNG streams make the result bit-identical to this feed's
/// slot in [`crate::pipeline::collect_all`].
pub fn collect_bot(world: &MailWorld, config: &BotConfig) -> Feed {
    let member = MemberSpec::Bot { config: *config };
    collect_content(
        world,
        std::slice::from_ref(&member),
        &FaultPlan::off(world.truth.seed),
        &Parallelism::serial(),
        &Obs::off(),
    )
    .pop()
    // lint:allow(no-panic) -- the engine yields exactly one feed per member; losing it must fail loudly rather than fabricate an empty feed
    .unwrap_or_else(|| unreachable!("engine yields one feed per member"))
}

#[cfg(test)]
mod tests {
    use crate::collectors::collect_bot;
    use crate::config::FeedsConfig;
    use taster_ecosystem::campaign::DeliveryVector;
    use taster_ecosystem::domains::DomainKind;
    use taster_ecosystem::{EcosystemConfig, GroundTruth};
    use taster_mailsim::{MailConfig, MailWorld};

    fn world() -> MailWorld {
        let truth =
            GroundTruth::generate(&EcosystemConfig::default().with_scale(0.03), 47).unwrap();
        MailWorld::build(truth, MailConfig::default().with_scale(0.03)).unwrap()
    }

    #[test]
    fn poison_dominates_unique_domains() {
        let w = world();
        let feed = collect_bot(&w, &FeedsConfig::default().bot);
        let mut poison = 0usize;
        let mut other = 0usize;
        for (d, _) in feed.iter() {
            if w.truth.universe.record(d).kind == DomainKind::Poison {
                poison += 1;
            } else {
                other += 1;
            }
        }
        assert!(
            poison > 3 * other,
            "poison {poison} vs other {other}: random domains dominate Bot"
        );
    }

    #[test]
    fn only_monitored_botnet_campaigns_appear() {
        let w = world();
        let feed = collect_bot(&w, &FeedsConfig::default().bot);
        // Build the set of domains deliverable by monitored botnets.
        let mut allowed = std::collections::HashSet::new();
        for e in w.truth.events() {
            if let DeliveryVector::Botnet(b) = e.delivery {
                if w.truth.botnets[b.index()].monitored {
                    allowed.insert(e.advertised);
                    if let Some(c) = e.chaff {
                        allowed.insert(c);
                    }
                }
            }
        }
        for (d, _) in feed.iter() {
            assert!(allowed.contains(&d));
        }
    }

    #[test]
    fn high_purity_no_benign_pollution() {
        let w = world();
        let feed = collect_bot(&w, &FeedsConfig::default().bot);
        // Botnet feeds have no false positives beyond chaff the bots
        // themselves emit: every domain traces to a botnet message.
        assert!(feed.samples.unwrap() > 0);
        assert!(feed.unique_domains() > 0);
    }
}
