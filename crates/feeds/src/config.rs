//! Per-collector configuration.

/// MX honeypot parameters.
#[derive(Debug, Clone, Copy)]
pub struct MxConfig {
    /// Probability a brute-force copy whose address list covers this
    /// honeypot actually lands in it (proportional to the honeypot's
    /// address-space size).
    pub capture_prob: f64,
}

/// Seeded honey-account parameters.
#[derive(Debug, Clone, Copy)]
pub struct AcConfig {
    /// Harvest vectors this feed's accounts were seeded into (bitmask;
    /// the quality of a honey-account feed is "related both to the
    /// number of accounts and how well the accounts are seeded", §3.2).
    pub vector_mask: u8,
    /// Capture probability per matching harvested copy.
    pub capture_prob: f64,
}

/// Botnet-monitor parameters.
#[derive(Debug, Clone, Copy)]
pub struct BotConfig {
    /// Fraction of a monitored botnet's outbound stream the captive
    /// instances reproduce.
    pub capture_prob: f64,
}

/// Hybrid-feed parameters: a mixture of sources.
#[derive(Debug, Clone, Copy)]
pub struct HybConfig {
    /// Its own small MX-like trap (any brute-force copy).
    pub trap_prob: f64,
    /// Its own honey accounts on one harvest vector.
    pub harvest_vector: u8,
    /// Capture probability on that vector.
    pub harvest_prob: f64,
    /// A partner relays a sample of user reports.
    pub report_sample_prob: f64,
    /// Fraction of web-spam (non-e-mail) sightings it ingests.
    pub webspam_prob: f64,
}

/// When a blacklist's listing clock starts for a domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ListingAnchor {
    /// At first advertisement (warm-up start) — human-report-driven
    /// sources see the trickle.
    AdvertStart,
    /// At blast onset — trap-driven sources only see the blast.
    BlastStart,
}

/// Domain-blacklist parameters.
#[derive(Debug, Clone, Copy)]
pub struct BlacklistConfig {
    /// Listing probability for loud-campaign domains.
    pub loud_prob: f64,
    /// Listing probability for quiet-campaign domains of *tagged*
    /// programs (pharma-focused trap networks catch these well).
    pub quiet_tagged_prob: f64,
    /// Listing probability for quiet untagged-vertical domains.
    pub quiet_untagged_prob: f64,
    /// Listing probability for web-spam corpus domains.
    pub webspam_prob: f64,
    /// Probability a listed domain that sits on the Alexa/ODP lists
    /// survives curation (the paper: <1–2 % of blacklist entries).
    pub benign_leak: f64,
    /// Probability an *unregistered* domain survives curation
    /// (blacklists validate registration, Table 2: 100 % DNS).
    pub unregistered_leak: f64,
    /// Exponential mean listing delay after the anchor, days.
    pub delay_mean_days: f64,
    /// Which instant the delay anchors on.
    pub anchor: ListingAnchor,
}

/// All feed-collector knobs.
#[derive(Debug, Clone)]
pub struct FeedsConfig {
    /// mx1..mx3.
    pub mx: [MxConfig; 3],
    /// Ac1, Ac2.
    pub ac: [AcConfig; 2],
    /// Bot monitor.
    pub bot: BotConfig,
    /// Hybrid feed.
    pub hyb: HybConfig,
    /// The broad, fast blacklist (dbl).
    pub dbl: BlacklistConfig,
    /// The trap-driven URI blacklist (uribl).
    pub uribl: BlacklistConfig,
}

impl Default for FeedsConfig {
    fn default() -> Self {
        FeedsConfig {
            mx: [
                MxConfig { capture_prob: 0.13 },
                MxConfig { capture_prob: 0.40 },
                MxConfig { capture_prob: 0.07 },
            ],
            ac: [
                AcConfig {
                    vector_mask: 0b0_1111, // vectors 0–3 + 4? bits 0..=3
                    capture_prob: 0.18,
                },
                AcConfig {
                    vector_mask: 0b1_0010, // vectors 1 and 4 only
                    capture_prob: 0.10,
                },
            ],
            bot: BotConfig { capture_prob: 0.9 },
            hyb: HybConfig {
                trap_prob: 0.03,
                harvest_vector: 0,
                harvest_prob: 0.03,
                report_sample_prob: 0.05,
                webspam_prob: 1.0,
            },
            dbl: BlacklistConfig {
                loud_prob: 0.75,
                quiet_tagged_prob: 0.25,
                quiet_untagged_prob: 0.40,
                webspam_prob: 0.22,
                benign_leak: 0.008,
                unregistered_leak: 0.002,
                delay_mean_days: 0.35,
                anchor: ListingAnchor::AdvertStart,
            },
            uribl: BlacklistConfig {
                loud_prob: 0.985,
                quiet_tagged_prob: 0.08,
                quiet_untagged_prob: 0.10,
                webspam_prob: 0.03,
                benign_leak: 0.02,
                unregistered_leak: 0.002,
                delay_mean_days: 0.6,
                anchor: ListingAnchor::BlastStart,
            },
        }
    }
}

impl FeedsConfig {
    /// Validates probability ranges.
    pub fn validate(&self) -> Result<(), String> {
        let mut probs = vec![
            self.bot.capture_prob,
            self.hyb.trap_prob,
            self.hyb.harvest_prob,
            self.hyb.report_sample_prob,
            self.hyb.webspam_prob,
        ];
        for m in &self.mx {
            probs.push(m.capture_prob);
        }
        for a in &self.ac {
            probs.push(a.capture_prob);
            if a.vector_mask == 0 {
                return Err("honey-account feed with empty seeding mask".into());
            }
        }
        for b in [&self.dbl, &self.uribl] {
            probs.extend([
                b.loud_prob,
                b.quiet_tagged_prob,
                b.quiet_untagged_prob,
                b.webspam_prob,
                b.benign_leak,
                b.unregistered_leak,
            ]);
            if b.delay_mean_days <= 0.0 {
                return Err("blacklist delay must be positive".into());
            }
        }
        if probs.iter().any(|p| !(0.0..=1.0).contains(p)) {
            return Err("probability out of [0,1]".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_validates() {
        FeedsConfig::default().validate().unwrap();
    }

    #[test]
    fn mx2_is_largest_mx3_smallest() {
        let c = FeedsConfig::default();
        assert!(c.mx[1].capture_prob > c.mx[0].capture_prob);
        assert!(c.mx[0].capture_prob > c.mx[2].capture_prob);
    }

    #[test]
    fn ac2_is_narrower_than_ac1() {
        let c = FeedsConfig::default();
        assert!(c.ac[1].vector_mask.count_ones() < c.ac[0].vector_mask.count_ones());
    }

    #[test]
    fn validation_catches_bad_values() {
        let mut c = FeedsConfig::default();
        c.ac[0].vector_mask = 0;
        assert!(c.validate().is_err());
        let mut c = FeedsConfig::default();
        c.dbl.loud_prob = 2.0;
        assert!(c.validate().is_err());
        let mut c = FeedsConfig::default();
        c.uribl.delay_mean_days = 0.0;
        assert!(c.validate().is_err());
    }
}
