//! Assembly of the complete ground truth.
//!
//! [`GroundTruth::generate`] is the single entry point: a pure function
//! of `(EcosystemConfig, seed)` producing the program roster, botnets,
//! campaigns, domain registry and the event-stream spine. Each
//! generation stage draws from its own named RNG stream, so the ground
//! truth is bit-stable regardless of what the observation layers do.
//!
//! The first pass reduces the event log to [`EventLog`] — the log
//! length, the generation-order → time-sorted-order permutation
//! (`rank`) and the poison replay anchor — and, when the memory budget
//! allows, a time-sorted cache of every event. Consumers read events
//! through one of two readers, which hide whether the cache exists:
//!
//! * [`GroundTruth::for_each_sorted`] visits rows in time-sorted order
//!   (the provider's filter feedback, serve's ingest);
//! * [`GroundTruth::for_each_chunk`] visits every row once in any
//!   order (feed collection, the blocking study).
//!
//! Out of core both re-derive events from [`GroundTruth::events`],
//! which replays the exact generation draws in O(1) memory.

use crate::botnet::{generate_botnets, Botnet};
use crate::buffer::EventBuffer;
use crate::campaign::{plan_campaigns, Campaign, CampaignStyle, DeliveryVector, TargetingMix};
use crate::config::{EcosystemConfig, TargetMixConfig, CHUNK_ROWS, SORTED_BUCKET_ROWS};
use crate::domains::{DomainKind, DomainUniverse};
use crate::event::{
    campaign_event_count, stream_campaign_events, stream_poison_events, EventStream, SpamEvent,
};
use crate::ids::{CampaignId, ProgramId};
use crate::program::ProgramRoster;
use std::fmt;
use std::ops::Range;
use taster_domain::DomainId;
use taster_sim::{RngStream, SimTime, TimeWindow};

/// Why [`GroundTruth::generate`] refused to build a world.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GenerateError {
    /// The configuration failed [`EcosystemConfig::validate`].
    InvalidConfig(String),
    /// The memory budget is below [`EcosystemConfig::budget_floor`]:
    /// it cannot hold the rank permutation plus one streaming row.
    BudgetBelowFloor {
        /// The configured budget in bytes.
        budget: u64,
        /// The smallest budget this world accepts, in bytes.
        floor: u64,
        /// Events in the log.
        events: u64,
    },
}

impl fmt::Display for GenerateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GenerateError::InvalidConfig(msg) => f.write_str(msg),
            GenerateError::BudgetBelowFloor {
                budget,
                floor,
                events,
            } => write!(
                f,
                "memory budget of {budget} bytes is below the floor of {floor} bytes \
                 for {events} events (4 bytes per event plus one {}-byte row)",
                EventBuffer::bytes_per_event()
            ),
        }
    }
}

impl std::error::Error for GenerateError {}

/// Compact spine of the event stream. The full log is never held;
/// this is everything needed to replay it and to address events by
/// their time-sorted position.
#[derive(Debug, Clone)]
pub struct EventLog {
    /// Number of delivered copies.
    pub len: usize,
    /// `rank[g]` is the time-sorted position of the event generated
    /// at index `g` (stable: ties keep generation order). This is the
    /// index every keyed per-event RNG/fault stream uses, so chunking
    /// and worker count cannot change any draw.
    pub rank: Vec<u32>,
    /// Dense [`DomainId`] of the first poison registration — the
    /// anchor [`DomainUniverse::replay_poison`] replays against.
    pub poison_base: u32,
}

/// The fully-generated spam ecosystem.
#[derive(Debug, Clone)]
pub struct GroundTruth {
    /// The configuration that produced this world.
    pub config: EcosystemConfig,
    /// The master seed.
    pub seed: u64,
    /// Domain registry (interner, records, redirects).
    pub universe: DomainUniverse,
    /// Programs and affiliates.
    pub roster: ProgramRoster,
    /// Botnets.
    pub botnets: Vec<Botnet>,
    /// All campaigns (the poisoning pseudo-campaign, when enabled, is
    /// the last entry and has `poison == true` and an empty plan).
    pub campaigns: Vec<Campaign>,
    /// Event-stream spine (length, sort permutation, replay anchor).
    pub log: EventLog,
    /// Web-spam (non-e-mail) domain sightings: `(first seen, domain)`,
    /// time-sorted. Consumed only by the hybrid feed's non-mail source.
    pub webspam: Vec<(SimTime, DomainId)>,
    /// Time-sorted event columns, kept when the memory budget
    /// ([`EcosystemConfig::max_mem_bytes`]) covers the whole log.
    /// `None` means out of core: the readers replay [`Self::events`]
    /// instead. Row `r` holds the event at time-sorted position `r`
    /// (`sorted_idx[r] == r`), so cache iteration is draw-for-draw
    /// identical to a replay scattered through `log.rank`.
    sorted_cache: Option<EventBuffer>,
}

impl GroundTruth {
    /// Generates the world. Deterministic in `(config, seed)`. Fails
    /// on an invalid configuration, and before the first event draw
    /// when the memory budget is below the floor for this log.
    pub fn generate(config: &EcosystemConfig, seed: u64) -> Result<GroundTruth, GenerateError> {
        config.validate().map_err(GenerateError::InvalidConfig)?;
        let mut roster_rng = RngStream::new(seed, "ecosystem/roster");
        let roster = ProgramRoster::generate(config, &mut roster_rng);

        let mut botnet_rng = RngStream::new(seed, "ecosystem/botnets");
        let botnets = generate_botnets(config, &roster, &mut botnet_rng);

        let mut universe_rng = RngStream::new(seed, "ecosystem/universe");
        let mut universe = DomainUniverse::new(config, &mut universe_rng);

        let mut campaign_rng = RngStream::new(seed, "ecosystem/campaigns");
        let mut campaigns =
            plan_campaigns(config, &roster, &botnets, &mut universe, &mut campaign_rng);

        // The exact event count is known before the first draw:
        // `plan_copies` is a pure function of the plan, and the poison
        // pseudo-campaign emits exactly its configured volume. That
        // lets the memory budget decide *up front* whether the sorted
        // event cache fits, instead of guessing and re-allocating, and
        // whether it can stream the log at all.
        let poison_active = config.poison.is_some() && botnets.iter().any(|b| b.poisons);
        let expected: u64 = campaigns
            .iter()
            .map(|c| campaign_event_count(config, c))
            .sum::<u64>()
            + if poison_active {
                config.poison.as_ref().map_or(0, |p| p.volume)
            } else {
                0
            };
        let floor = EcosystemConfig::budget_floor(expected);
        if config.mem_budget() < floor {
            return Err(GenerateError::BudgetBelowFloor {
                budget: config.mem_budget(),
                floor,
                events: expected,
            });
        }
        let build_cache = config.wants_cache(expected);

        // First pass: run the full generation draws. Within budget we
        // keep every column (the sorted cache saves consumers a full
        // replay each); out of core we keep only the per-event times
        // and consumers re-derive events on demand.
        let mut event_rng = RngStream::new(seed, "ecosystem/events");
        let mut times: Vec<SimTime> = Vec::new();
        let mut gen_buf: Option<EventBuffer> = if build_cache {
            Some(EventBuffer::with_capacity(expected as usize))
        } else {
            times.reserve(expected as usize);
            None
        };
        let mut sink = |e: SpamEvent| match &mut gen_buf {
            Some(b) => b.push(&e, 0),
            None => times.push(e.time),
        };
        for c in &campaigns {
            stream_campaign_events(config, c, &universe, &mut event_rng, &mut sink);
        }

        // The poisoning pseudo-campaign.
        let mut poison_base = universe.len() as u32;
        if let Some(poison) = &config.poison {
            if let Some(rustock) = botnets.iter().find(|b| b.poisons) {
                let id = CampaignId(campaigns.len() as u32);
                let affiliate = rustock
                    .operator_affiliates
                    .first()
                    .copied()
                    .unwrap_or(crate::ids::AffiliateId(0));
                let program = roster.affiliate(affiliate).program;
                let window = TimeWindow::new(
                    SimTime::from_days(poison.start_day),
                    SimTime::from_days(poison.start_day + poison.days),
                );
                let mix = TargetingMix::from_config(&TargetMixConfig {
                    brute: 0.75,
                    harvested: 0.0,
                    purchased: 0.15,
                    social: 0.10,
                });
                let delivery = DeliveryVector::Botnet(rustock.id);
                campaigns.push(Campaign {
                    id,
                    affiliate,
                    program,
                    style: CampaignStyle::Loud,
                    delivery,
                    mix,
                    trickle_mix: mix,
                    // Rustock's list covered the mx2-style abandoned
                    // space only — the reason only Bot and mx2 show the
                    // registration collapse in Table 2.
                    brute_mask: 0b010,
                    harvest_mask: 0b1,
                    trickle: TimeWindow::new(window.start, window.start),
                    blast: window,
                    volume: poison.volume,
                    domains: Vec::new(),
                    poison: true,
                });
                // The first poison registration gets the next dense id;
                // record it as the replay anchor.
                poison_base = universe.len() as u32;
                let mut poison_rng = RngStream::new(seed, "ecosystem/poison");
                stream_poison_events(
                    poison,
                    id,
                    delivery,
                    &mut universe,
                    &mut poison_rng,
                    &mut sink,
                );
            }
        }

        // Stable argsort of the times gives the generation→sorted
        // permutation. Times are seconds bounded by the simulation
        // horizon (a few million), so a counting sort over that range
        // beats a comparison sort at millions of events — and assigning
        // positions in generation order makes it stable by
        // construction, matching the old `sort_by_key(time)` tie
        // behaviour exactly.
        let gen_times: &[SimTime] = gen_buf.as_ref().map_or(&times, |b| &b.time);
        let max_t = gen_times.iter().map(|t| t.0).max().unwrap_or(0) as usize;
        let mut starts = vec![0u32; max_t + 2];
        for t in gen_times {
            starts[t.0 as usize + 1] += 1;
        }
        for i in 1..starts.len() {
            starts[i] += starts[i - 1];
        }
        let mut rank = vec![0u32; gen_times.len()];
        for (g, t) in gen_times.iter().enumerate() {
            let slot = &mut starts[t.0 as usize];
            rank[g] = *slot;
            *slot += 1;
        }
        let log = EventLog {
            len: gen_times.len(),
            rank,
            poison_base,
        };
        drop(times);
        drop(starts);

        // Scatter the generation-order capture into time-sorted order.
        // Column-by-column, so the peak is one extra column rather than
        // a second full buffer.
        let sorted_cache = gen_buf.map(|b| b.into_sorted(&log.rank));

        // The web-spam corpus: live storefronts advertised outside
        // e-mail (forum spam, search-redirection). Mostly untagged
        // verticals; a slice fronts tagged programs.
        let mut web_rng = RngStream::new(seed, "ecosystem/webspam");
        let n_webspam = ((config.webspam_domains as f64) * config.campaign_scale).round() as usize;
        let mut webspam = Vec::with_capacity(n_webspam);
        let tagged_programs: Vec<ProgramId> = roster.tagged_programs().collect();
        let untagged_programs: Vec<ProgramId> = roster
            .programs
            .iter()
            .filter(|p| !p.tagged)
            .map(|p| p.id)
            .collect();
        use rand::RngExt;
        for _ in 0..n_webspam {
            let program = if web_rng.random_bool(config.webspam_tagged_fraction)
                || untagged_programs.is_empty()
            {
                tagged_programs[web_rng.random_range(0..tagged_programs.len())]
            } else {
                untagged_programs[web_rng.random_range(0..untagged_programs.len())]
            };
            let affs = roster.affiliates_of(program);
            let affiliate = affs[web_rng.random_range(0..affs.len())];
            let registered = web_rng.random_bool(config.webspam_registered_prob);
            let live = web_rng.random_bool(config.storefront_live_prob);
            let d = universe.register_storefront_with(
                program,
                affiliate,
                registered,
                live,
                &mut web_rng,
            );
            let t = SimTime(web_rng.random_range(0..config.days * taster_sim::DAY));
            webspam.push((t, d));
        }
        webspam.sort_by_key(|&(t, _)| t);

        Ok(GroundTruth {
            config: config.clone(),
            seed,
            universe,
            roster,
            botnets,
            campaigns,
            log,
            webspam,
            sorted_cache,
        })
    }

    /// Whether the memory budget kept the sorted event cache resident.
    pub fn in_core(&self) -> bool {
        self.sorted_cache.is_some()
    }

    /// Visits the time-sorted rows `rows` in order: each call hands `f`
    /// a buffer and the range of its rows to read, and each call picks
    /// up where the previous one stopped. Every row carries its
    /// time-sorted position in `sorted_idx`.
    ///
    /// In core this is one call over the cache. Out of core each call
    /// is one bucket of at most `min(budget rows, 2^21)` rows, rebuilt
    /// by one generation replay scattered through `log.rank`.
    pub fn for_each_sorted<F: FnMut(&EventBuffer, Range<usize>)>(
        &self,
        rows: Range<usize>,
        mut f: F,
    ) {
        debug_assert!(rows.end <= self.log.len, "rows past the end of the log");
        if let Some(cache) = &self.sorted_cache {
            f(cache, rows);
            return;
        }
        let width = self
            .config
            .budget_rows(self.log.len as u64)
            .min(SORTED_BUCKET_ROWS);
        let mut bucket = EventBuffer::default();
        let mut lo = rows.start;
        while lo < rows.end {
            let hi = (lo + width).min(rows.end);
            bucket.reset_for_scatter(hi - lo);
            let mut missing = hi - lo;
            for (g, event) in self.events().enumerate() {
                let r = self.log.rank[g] as usize;
                if (lo..hi).contains(&r) {
                    bucket.set(r - lo, &event, r as u32);
                    missing -= 1;
                    if missing == 0 {
                        break;
                    }
                }
            }
            // `rank` is a permutation of 0..n, so every slot is filled.
            debug_assert_eq!(missing, 0, "hole in sorted-event bucket");
            f(&bucket, 0..hi - lo);
            lo = hi;
        }
    }

    /// Visits every row exactly once, in no guaranteed order; each row
    /// carries its time-sorted position in `sorted_idx`.
    ///
    /// In core this is one call over the cache. Out of core it is one
    /// generation-order replay, handed over in chunks of at most
    /// `min(budget rows, 65 536)` rows.
    pub fn for_each_chunk<F: FnMut(&EventBuffer, Range<usize>)>(&self, mut f: F) {
        if let Some(cache) = &self.sorted_cache {
            f(cache, 0..cache.len());
            return;
        }
        let width = self.config.budget_rows(self.log.len as u64).min(CHUNK_ROWS);
        let mut chunk = EventBuffer::with_capacity(width);
        for (g, event) in self.events().enumerate() {
            chunk.push(&event, self.log.rank[g]);
            if chunk.len() == width {
                f(&chunk, 0..width);
                chunk.clear();
            }
        }
        if !chunk.is_empty() {
            f(&chunk, 0..chunk.len());
        }
    }

    /// Replays the event stream in *generation* order. Event `g` of
    /// this iterator sits at time-sorted position `self.log.rank[g]`.
    pub fn events(&self) -> EventStream<'_> {
        EventStream::new(
            &self.config,
            &self.campaigns,
            &self.universe,
            self.seed,
            self.log.poison_base,
        )
    }

    /// Materialises the full time-sorted event log (ties in generation
    /// order) — O(n) memory; meant for tests, examples and small
    /// one-off analyses, not the streaming pipeline.
    pub fn sorted_events(&self) -> Vec<SpamEvent> {
        let gen_events: Vec<SpamEvent> = self.events().collect();
        let mut out = gen_events.clone();
        for (g, e) in gen_events.into_iter().enumerate() {
            out[self.log.rank[g] as usize] = e;
        }
        out
    }

    /// Campaign lookup.
    pub fn campaign(&self, id: CampaignId) -> &Campaign {
        &self.campaigns[id.index()]
    }

    /// The whole measurement window.
    pub fn window(&self) -> TimeWindow {
        TimeWindow::first_days(self.config.days)
    }

    /// Total delivered copies.
    pub fn total_volume(&self) -> u64 {
        self.log.len as u64
    }

    /// The program whose storefront ultimately sits behind `domain`
    /// (following redirects), if any.
    pub fn storefront_program(&self, domain: DomainId) -> Option<ProgramId> {
        let terminus = self.universe.resolve_final(domain);
        match self.universe.record(terminus).kind {
            DomainKind::Storefront { program, .. } => Some(program),
            _ => None,
        }
    }

    /// True when `domain` (after redirects) fronts a *tagged* program.
    pub fn is_tagged_domain(&self, domain: DomainId) -> bool {
        self.storefront_program(domain)
            .map(|p| self.roster.program(p).tagged)
            .unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::TargetClass;
    use crate::event::{generate_campaign_events, generate_poison_events};

    fn world(scale: f64, seed: u64) -> GroundTruth {
        GroundTruth::generate(&EcosystemConfig::default().with_scale(scale), seed).unwrap()
    }

    #[test]
    fn generation_is_deterministic() {
        let a = world(0.02, 7);
        let b = world(0.02, 7);
        assert_eq!(a.log.len, b.log.len);
        assert_eq!(a.log.rank, b.log.rank);
        assert!(a.events().eq(b.events()));
        assert_eq!(a.universe.len(), b.universe.len());
    }

    #[test]
    fn different_seeds_differ() {
        let a = world(0.02, 7);
        let b = world(0.02, 8);
        assert!(!a.events().eq(b.events()));
    }

    #[test]
    fn sorted_events_are_time_sorted_and_rank_is_permutation() {
        let g = world(0.02, 1);
        let sorted = g.sorted_events();
        assert_eq!(sorted.len(), g.log.len);
        assert!(sorted.windows(2).all(|w| w[0].time <= w[1].time));
        let mut seen = vec![false; g.log.len];
        for &r in &g.log.rank {
            assert!(!seen[r as usize]);
            seen[r as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
        // Ties keep generation order (stable sort contract).
        for w in g.log.rank.windows(2) {
            if sorted[w[0] as usize].time == sorted[w[1] as usize].time {
                assert!(w[0] < w[1]);
            }
        }
    }

    /// The replay stream must be draw-for-draw identical to the old
    /// register-mode generation. Rebuild the world's first pass by
    /// hand (same named streams, same order) and compare.
    #[test]
    fn replay_matches_register_mode_generation() {
        let config = EcosystemConfig::default().with_scale(0.02);
        let seed = 7;
        let g = GroundTruth::generate(&config, seed).unwrap();

        // Re-run the pre-streaming first pass: same stream names, same
        // order, but materialising events and registering poison
        // domains into a throwaway universe.
        let mut roster_rng = RngStream::new(seed, "ecosystem/roster");
        let roster = ProgramRoster::generate(&config, &mut roster_rng);
        let mut botnet_rng = RngStream::new(seed, "ecosystem/botnets");
        let botnets = generate_botnets(&config, &roster, &mut botnet_rng);
        let mut universe_rng = RngStream::new(seed, "ecosystem/universe");
        let mut universe = DomainUniverse::new(&config, &mut universe_rng);
        let mut campaign_rng = RngStream::new(seed, "ecosystem/campaigns");
        let campaigns =
            plan_campaigns(&config, &roster, &botnets, &mut universe, &mut campaign_rng);
        let mut event_rng = RngStream::new(seed, "ecosystem/events");
        let mut events = Vec::new();
        for c in &campaigns {
            generate_campaign_events(&config, c, &universe, &mut event_rng, &mut events);
        }
        if let Some(poison) = &config.poison {
            if let Some(rustock) = botnets.iter().find(|b| b.poisons) {
                let id = CampaignId(campaigns.len() as u32);
                let mut poison_rng = RngStream::new(seed, "ecosystem/poison");
                generate_poison_events(
                    poison,
                    id,
                    DeliveryVector::Botnet(rustock.id),
                    &mut universe,
                    &mut poison_rng,
                    &mut events,
                );
            }
        }
        let replayed: Vec<SpamEvent> = g.events().collect();
        assert_eq!(replayed.len(), events.len());
        assert_eq!(replayed, events);
    }

    #[test]
    fn sorted_cache_matches_replay_and_respects_budget() {
        let g = world(0.02, 7);
        let cache = g
            .sorted_cache
            .as_ref()
            .expect("default budget caches small worlds");
        let sorted = g.sorted_events();
        assert_eq!(cache.len(), sorted.len());
        for (r, e) in sorted.iter().enumerate() {
            assert_eq!(cache.event(r), *e, "row {r}");
            assert_eq!(cache.sorted_idx[r], r as u32);
        }
        // A budget too small for the cache but above the floor must
        // fall back to replay mode with a bit-identical spine.
        let n = g.log.len as u64;
        let floor = EcosystemConfig::budget_floor(n);
        let mut tight = EcosystemConfig::default().with_scale(0.02);
        tight.max_mem_bytes = Some(floor + 64 * EventBuffer::bytes_per_event() as u64);
        let t = GroundTruth::generate(&tight, 7).unwrap();
        assert!(!t.in_core(), "tight budget streams out of core");
        assert_eq!(t.log.len, g.log.len);
        assert_eq!(t.log.rank, g.log.rank);
        assert!(t.events().eq(g.events()));
        // The floor itself is accepted; one byte under it, or a budget
        // that cannot even hold the rank permutation, fails up front.
        tight.max_mem_bytes = Some(floor);
        assert!(GroundTruth::generate(&tight, 7).is_ok());
        for budget in [floor - 1, 1024] {
            tight.max_mem_bytes = Some(budget);
            let err = GroundTruth::generate(&tight, 7).unwrap_err();
            assert_eq!(
                err,
                GenerateError::BudgetBelowFloor {
                    budget,
                    floor,
                    events: n
                }
            );
            assert!(err.to_string().contains(&format!("floor of {floor} bytes")));
        }
    }

    #[test]
    fn readers_agree_in_and_out_of_core() {
        let g = world(0.02, 7);
        let sorted = g.sorted_events();
        let n = g.log.len;
        let mut tight = g.config.clone();
        tight.max_mem_bytes = Some(
            EcosystemConfig::budget_floor(n as u64) + 4096 * EventBuffer::bytes_per_event() as u64,
        );
        let t = GroundTruth::generate(&tight, 7).unwrap();
        assert!(g.in_core() && !t.in_core());
        for truth in [&g, &t] {
            // A ragged slice arrives in sorted order, bucket after bucket.
            let (lo, hi) = (n / 3, n - 5);
            let mut next = lo;
            truth.for_each_sorted(lo..hi, |buf, rows| {
                for r in rows {
                    assert_eq!(buf.sorted_idx[r] as usize, next);
                    assert_eq!(buf.event(r), sorted[next]);
                    next += 1;
                }
            });
            assert_eq!(next, hi);
            // The unordered reader visits every row exactly once.
            let mut seen = vec![false; n];
            truth.for_each_chunk(|buf, rows| {
                for r in rows {
                    let i = buf.sorted_idx[r] as usize;
                    assert!(!seen[i], "row {i} visited twice");
                    seen[i] = true;
                    assert_eq!(buf.event(r), sorted[i]);
                }
            });
            assert!(seen.iter().all(|&s| s));
        }
    }

    #[test]
    fn poison_campaign_is_last_and_marked() {
        let g = world(0.02, 1);
        let poison: Vec<_> = g.campaigns.iter().filter(|c| c.poison).collect();
        assert_eq!(poison.len(), 1);
        assert!(g.campaigns.last().unwrap().poison);
        // Poison events exist and advertise Poison-kind domains.
        let pid = poison[0].id;
        let mut n = 0;
        for e in g.events().filter(|e| e.campaign == pid) {
            assert_eq!(g.universe.record(e.advertised).kind, DomainKind::Poison);
            n += 1;
        }
        assert!(n > 100, "poison events: {n}");
    }

    #[test]
    fn tagged_domains_resolve_through_landings() {
        let g = world(0.05, 3);
        let mut tagged_landings = 0;
        for c in g.campaigns.iter().filter(|c| !c.poison) {
            let tagged = g.roster.program(c.program).tagged;
            for p in &c.domains {
                assert_eq!(
                    g.storefront_program(p.storefront),
                    Some(c.program),
                    "storefront resolves to its own program"
                );
                if let Some(l) = p.landing {
                    if g.is_tagged_domain(l) {
                        tagged_landings += 1;
                    }
                    // Fresh landing domains are exclusive to their
                    // campaign; compromised benign redirectors are
                    // shared (a later campaign may re-point a popular
                    // shortener), so we only check those resolve to
                    // *some* storefront.
                    match g.universe.record(l).kind {
                        DomainKind::Landing => {
                            assert_eq!(g.storefront_program(l), Some(c.program))
                        }
                        _ => assert!(g.storefront_program(l).is_some()),
                    }
                }
                assert_eq!(g.is_tagged_domain(p.storefront), tagged);
            }
        }
        assert!(
            tagged_landings > 0,
            "some landing domains front tagged programs"
        );
    }

    #[test]
    fn brute_force_volume_is_substantial() {
        let g = world(0.02, 2);
        let brute = g
            .events()
            .filter(|e| e.target == TargetClass::BruteForce)
            .count();
        let frac = brute as f64 / g.log.len as f64;
        assert!(frac > 0.2 && frac < 0.8, "brute fraction {frac}");
    }

    #[test]
    fn events_fit_in_window_with_slack() {
        let g = world(0.02, 2);
        let limit = g.window().end.plus(15 * taster_sim::DAY);
        assert!(g.events().all(|e| e.time < limit));
    }
}
