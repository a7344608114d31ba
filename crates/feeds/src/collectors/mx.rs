//! MX honeypot collectors (mx1, mx2, mx3).
//!
//! An MX honeypot accepts every SMTP connection to a quiescent domain
//! portfolio (§3.2). It therefore sees exactly the brute-force-
//! addressed share of campaigns whose address lists cover its
//! portfolio: stale lists cover the abandoned-domain honeypots (mx1,
//! mx2); only fresh zone-derived lists — favoured by botnets — cover
//! the newly-registered mx3. Capture probability scales with the
//! portfolio size. The collector parses the payload an
//! accept-everything SMTP sink would store — the message body as it
//! leaves the DATA state machine, without its terminating newline —
//! so domains are recovered exactly as a real MX sink recovers them.
//! It also receives the doppelganger/sign-up pollution stream.

use crate::config::MxConfig;
use crate::engine::{collect_content, MemberSpec};
use crate::feed::Feed;
use taster_mailsim::MailWorld;
use taster_sim::{FaultPlan, Obs, Parallelism};

/// Collects MX honeypot `index` (0 = mx1, 1 = mx2, 2 = mx3).
///
/// Thin wrapper over the fused content engine with a single member;
/// per-event RNG streams make the result bit-identical to this feed's
/// slot in [`crate::pipeline::collect_all`].
pub fn collect_mx(world: &MailWorld, config: &MxConfig, index: u8) -> Feed {
    assert!(index < 3);
    let member = MemberSpec::Mx {
        config: *config,
        index,
    };
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
    use crate::collectors::collect_mx;
    use crate::config::FeedsConfig;
    use taster_ecosystem::{EcosystemConfig, GroundTruth};
    use taster_mailsim::{MailConfig, MailWorld};

    fn world() -> MailWorld {
        let truth =
            GroundTruth::generate(&EcosystemConfig::default().with_scale(0.03), 41).unwrap();
        MailWorld::build(truth, MailConfig::default().with_scale(0.03)).unwrap()
    }

    #[test]
    fn sizes_follow_capture_probability() {
        let w = world();
        let cfg = FeedsConfig::default();
        let mx1 = collect_mx(&w, &cfg.mx[0], 0);
        let mx2 = collect_mx(&w, &cfg.mx[1], 1);
        let mx3 = collect_mx(&w, &cfg.mx[2], 2);
        assert!(
            mx2.samples > mx1.samples,
            "{:?} > {:?}",
            mx2.samples,
            mx1.samples
        );
        assert!(mx1.samples > mx3.samples);
        assert!(mx2.unique_domains() > mx3.unique_domains());
    }

    #[test]
    fn mx_feeds_record_volume_and_times() {
        let w = world();
        let cfg = FeedsConfig::default();
        let mx2 = collect_mx(&w, &cfg.mx[1], 1);
        assert!(mx2.reports_volume);
        let total: u64 = mx2.iter().map(|(_, s)| s.volume).sum();
        assert!(total > 0);
        for (_, s) in mx2.iter() {
            assert!(s.first_seen <= s.last_seen);
        }
    }

    #[test]
    fn deterministic() {
        let w = world();
        let cfg = FeedsConfig::default();
        let a = collect_mx(&w, &cfg.mx[0], 0);
        let b = collect_mx(&w, &cfg.mx[0], 0);
        assert_eq!(a.samples, b.samples);
        assert_eq!(a.unique_domains(), b.unique_domains());
    }
}
