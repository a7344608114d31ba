//! Parameter sweeps for the operational questions the paper raises
//! but could not vary: how much does honey-account *seeding quality*
//! buy, and does a *bigger* MX honeypot buy proportionally more
//! coverage? (Paper §1: "intuitively, it seems as though a larger
//! data feed is likely to provide better coverage … as we will show,
//! this intuition is misleading.")
//!
//! Sweeps build the world once and re-run only the collector under
//! study, so a multi-point sweep costs little more than one run.

use crate::scenario::Scenario;
use taster_crawler::Crawler;
use taster_ecosystem::GroundTruth;
use taster_feeds::collectors::{collect_ac, collect_mx};
use taster_feeds::config::{AcConfig, MxConfig};
use taster_feeds::Feed;
use taster_mailsim::MailWorld;

/// One point of a sweep.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Human-readable description of the varied parameter.
    pub label: String,
    /// Raw samples the collector captured.
    pub samples: u64,
    /// Unique registered domains.
    pub unique_domains: usize,
    /// Unique *tagged* domains (crawled).
    pub tagged_domains: usize,
}

fn measure(world: &MailWorld, feed: &Feed, label: String) -> SweepPoint {
    let crawler = Crawler::new(&world.truth);
    let tagged = feed
        .domain_ids()
        .filter(|&d| crawler.crawl_one(d).is_tagged())
        .count();
    SweepPoint {
        label,
        samples: feed.samples.unwrap_or(0),
        unique_domains: feed.unique_domains(),
        tagged_domains: tagged,
    }
}

/// Builds the world for a scenario (shared by both sweeps). Fails
/// only when the scenario is invalid.
pub fn build_world(scenario: &Scenario) -> Result<MailWorld, String> {
    scenario.validate()?;
    let truth =
        GroundTruth::generate(&scenario.ecosystem, scenario.seed).map_err(|e| e.to_string())?;
    MailWorld::build(truth, scenario.mail.clone())
}

/// Sweeps honey-account seeding breadth: 1..=n harvest vectors at
/// fixed capture probability. The paper: "the quality of a honey
/// account feed is related both to the number of accounts and how
/// well the accounts are seeded" (§3.2).
pub fn seeding_sweep(scenario: &Scenario, world: &MailWorld) -> Vec<SweepPoint> {
    let vectors = scenario.ecosystem.harvest_vectors;
    let capture = scenario.feeds.ac[1].capture_prob;
    (1..=vectors)
        .map(|k| {
            let mask = (1u16 << k) as u8 - 1; // first k vectors
            let cfg = AcConfig {
                vector_mask: mask,
                capture_prob: capture,
            };
            let feed = collect_ac(world, &cfg, 1);
            measure(
                world,
                &feed,
                format!("{k}/{vectors} harvest vectors (mask {mask:#07b})"),
            )
        })
        .collect()
}

/// Sweeps MX honeypot size (capture probability): does 8× the trap
/// space buy 8× the coverage? (It buys ~8× the *samples*.)
pub fn mx_size_sweep(scenario: &Scenario, world: &MailWorld, probs: &[f64]) -> Vec<SweepPoint> {
    let _ = scenario;
    probs
        .iter()
        .map(|&p| {
            let cfg = MxConfig { capture_prob: p };
            let feed = collect_mx(world, &cfg, 0);
            measure(world, &feed, format!("capture probability {p:.3}"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Scenario, MailWorld) {
        let s = Scenario::default_paper().with_scale(0.05).with_seed(19);
        let w = build_world(&s).unwrap();
        (s, w)
    }

    #[test]
    fn seeding_breadth_buys_coverage() {
        let (s, w) = setup();
        let points = seeding_sweep(&s, &w);
        assert_eq!(points.len(), s.ecosystem.harvest_vectors as usize);
        let first = &points[0];
        let last = points.last().unwrap();
        assert!(
            last.unique_domains > first.unique_domains,
            "broader seeding sees more: {} vs {}",
            last.unique_domains,
            first.unique_domains
        );
        assert!(last.tagged_domains >= first.tagged_domains);
    }

    #[test]
    fn mx_size_shows_diminishing_coverage_returns() {
        let (s, w) = setup();
        let points = mx_size_sweep(&s, &w, &[0.05, 0.2, 0.8]);
        assert_eq!(points.len(), 3);
        // Samples scale ~linearly with size…
        let sample_ratio = points[2].samples as f64 / points[0].samples.max(1) as f64;
        assert!(sample_ratio > 8.0, "samples ratio {sample_ratio:.1}");
        // …but unique-domain coverage grows far slower (the paper's
        // "larger feed ≠ proportionally better coverage").
        let unique_ratio = points[2].unique_domains as f64 / points[0].unique_domains.max(1) as f64;
        assert!(
            unique_ratio < sample_ratio / 2.0,
            "coverage ratio {unique_ratio:.1} ≪ samples ratio {sample_ratio:.1}"
        );
        assert!(points[2].unique_domains >= points[0].unique_domains);
    }
}
